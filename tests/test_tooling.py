"""Repository tooling: the names the benchmark tracer patches, and the
scripts the README documents.

perfbench/layertrace.py replaces layer functions by name; a rename in the
program makes `perfbench/run.py --trace 1` stop with a KeyError.  That test
only reads perfbench/.
"""

import importlib.util
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAYERTRACE = os.path.join(ROOT, "perfbench", "layertrace.py")


@pytest.fixture(scope="module")
def layertrace():
    spec = importlib.util.spec_from_file_location("_layertrace_names", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(layertrace):
    names = [(path, attr) for path, attr, _ in layertrace.SPANS + layertrace.COUNTS]
    assert len(names) >= 20
    missing = [f"{path}.{attr}" for path, attr in names
               if attr not in vars(layertrace._resolve(path))]
    assert not missing, f"perfbench/layertrace.py patches names that are gone: {missing}"


# (script, arguments, the start of one output line, spaces collapsed)
SCRIPT_RUNS = [
    ("verdict_table.py", ["--max-order", "4"], "4 4 0 0 0 unbounded 4a"),
    ("depth_profile_run.py", ["--base", "oct2", "--radius", "4"],
     "base=oct2 radius=4 elements=157 (complete"),
]


@pytest.mark.parametrize("script, args, expected", SCRIPT_RUNS,
                         ids=["verdict-table", "depth-profile-run"])
def test_documented_script_runs(script, args, expected):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert any(" ".join(line.split()).startswith(expected) for line in proc.stdout.splitlines())
