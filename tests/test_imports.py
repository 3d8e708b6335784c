"""What a command or a bare import loads: each CLI command, run in a fresh
process, imports only the package modules its path runs, and the package
namespace resolves its public names and submodules on first use."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import intervalstream
from intervalstream.core import format_stream
from intervalstream.generators import gen_uniform, gen_uniform_samelen

SRC = Path(intervalstream.__file__).resolve().parents[1]

# The names the package exported when its __init__ imported every module,
# by home module.
EXPORTED = {
    "core": ("DomainError", "Instance", "Interval", "ParseError", "format_stream",
             "intersects", "parse_stream"),
    "estimator": ("EstimatorConfig", "GeneralAlphaEstimator", "estimate_oracle_mode"),
    "estimator_samelen": ("SamelenAlphaEstimator", "SamelenConfig", "samelen_estimate_oracle"),
    "generators": ("gen_index_general", "gen_index_samelen", "gen_uniform",
                   "gen_uniform_samelen"),
    "harness": ("TrialReport", "run_single", "run_trials", "trial_success"),
    "hashing": ("BottomK", "ExactDistinct", "HashFamily", "KMVDistinct", "PolyBank"),
    "oracle": ("SegTree", "alpha", "beta", "brute_force_alpha", "gamma"),
    "selector": ("PartitionSelector",),
    "selector_samelen": ("ShiftedGridSelector",),
}
NAMES = sorted(name for names in EXPORTED.values() for name in names)

# Runs cli.main(argv) and prints its exit code and the loaded module names.
# os.cpu_count is pinned to 2 so that `trials --workers 2` asks for a pool
# on a one-CPU host too.
CHILD = """
import json, os, sys
os.cpu_count = lambda: 2
from intervalstream import cli
code = cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(sys.modules)]))
"""

POOL, STATS = "concurrent.futures.process", "statistics"
GENERAL_ONLY = ("estimator", "hashing", "rng")
SAMELEN_ONLY = ("selector_samelen", "estimator_samelen")

# command -> (argv before --in/--out, input, modules that must load,
# modules that must not); a bare name is a package module
COMMANDS = {
    "gen": (["gen", "uniform", "--n", "256", "--count", "40", "--max-len", "8"], None,
            ("generators", "rng"),
            ("estimator", "estimator_samelen", "hashing", "selector_samelen", POOL, STATS)),
    "exact": (["exact"], "general", ("oracle",),
              GENERAL_ONLY + SAMELEN_ONLY + ("generators", POOL, STATS)),
    "select-general": (["select", "--algo", "general"], "general", ("selector",),
                       GENERAL_ONLY + SAMELEN_ONLY + ("generators", POOL, STATS)),
    "select-samelen": (["select", "--algo", "samelen", "--lambda", "4"], "samelen",
                       ("selector_samelen",),
                       GENERAL_ONLY + ("estimator_samelen", "generators", POOL, STATS)),
    "estimate-general": (["estimate", "--algo", "general", "--eps", "0.45", "--scale", "1e-7",
                          "--seed", "1"], "general", GENERAL_ONLY,
                         SAMELEN_ONLY + ("generators", POOL, STATS)),
    "estimate-samelen": (["estimate", "--algo", "samelen", "--lambda", "4", "--seed", "1"],
                         "samelen", SAMELEN_ONLY + ("hashing",),
                         ("estimator", "generators", POOL, STATS)),
    "estimate-oracle-mode": (["estimate", "--algo", "general", "--oracle-mode"], "general",
                             ("estimator",), SAMELEN_ONLY + ("generators", POOL, STATS)),
    "trials-workers-2": (["trials", "--algo", "select-general", "--trials", "2",
                          "--workers", "2"], "general", ("selector", POOL, STATS),
                         GENERAL_ONLY + SAMELEN_ONLY + ("generators",)),
}


def _qualified(name: str) -> str:
    return name if "." in name or name == STATS else f"intervalstream.{name}"


def fresh_python(*args: str) -> str:
    """stdout of ``python *args`` in a new interpreter that sees this
    package's sources; the process must exit 0."""
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=pythonpath))
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    paths = {"general": root / "general.txt", "samelen": root / "samelen.txt"}
    paths["general"].write_text(format_stream(gen_uniform(256, 40, 8, seed=1)))
    paths["samelen"].write_text(format_stream(gen_uniform_samelen(256, 40, 4, seed=1)))
    return paths


@pytest.mark.parametrize("command", list(COMMANDS))
def test_command_loads_only_what_it_runs(command, inputs, tmp_path):
    argv, source, loads, skips = COMMANDS[command]
    if source is not None:
        argv = argv + ["--in", str(inputs[source])]
    out = fresh_python("-c", CHILD, json.dumps(argv + ["--out", str(tmp_path / "out")]))
    code, modules = json.loads(out.splitlines()[-1])
    assert code == 0, command
    loaded = set(modules)
    assert {_qualified(m) for m in loads} <= loaded
    assert not {_qualified(m) for m in skips} & loaded


@pytest.mark.parametrize("name", NAMES)
def test_exported_name_is_its_home_object(name):
    home = next(module for module, names in EXPORTED.items() if name in names)
    module = importlib.import_module(f"intervalstream.{home}")
    assert getattr(intervalstream, name) is getattr(module, name)


def test_dir_and_star_import_give_the_exported_names():
    assert sorted(intervalstream.__all__) == NAMES
    assert set(NAMES) <= set(dir(intervalstream))
    namespace = {}
    exec("from intervalstream import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == NAMES


def test_bare_import_loads_no_module_until_an_attribute_is_read():
    out = fresh_python("-c", "\n".join([
        "import sys, intervalstream",
        "before = sorted(m for m in sys.modules if m.startswith('intervalstream.'))",
        "assert intervalstream.oracle is sys.modules['intervalstream.oracle']",
        "assert intervalstream.cli is sys.modules['intervalstream.cli']",
        "print(before)"]))
    assert out.strip() == "[]"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        intervalstream.no_such_name
    assert not hasattr(intervalstream, "Window")
    with pytest.raises(ImportError):
        exec("from intervalstream import no_such_name", {})
