"""User-facing code runs against the package as it is: every demo script
exits 0, and the README's library quick start executes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import intervalstream

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(intervalstream.__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo):
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, capture_output=True,
                          text=True, timeout=300, env=dict(os.environ, PYTHONPATH=pythonpath))
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_readme_quick_start_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    snippet = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(snippet, "README.md quick start", "exec"), {})
    out = capsys.readouterr().out
    # the 2-approximation's two chosen intervals, then the exact optimum 2
    assert out.count("Interval(") == 2 and out.rstrip().endswith(" 2")
