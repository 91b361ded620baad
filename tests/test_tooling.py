"""Names the benchmark tracer patches must keep existing under.

perfbench/layertrace.py replaces layer functions by name; a rename in the
program makes `perfbench/run.py --trace 1` stop with a KeyError.  This test
only reads perfbench/.
"""

import importlib.util
import os

import pytest

LAYERTRACE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "perfbench", "layertrace.py")


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
