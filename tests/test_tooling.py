"""Repository tooling: the names the benchmark tracer patches, the scripts
the README documents, the public names and the parameter defaults of the
program that no code uses, and the resource caps, which live in one table
with one README row each.

perfbench/layertrace.py replaces layer functions by name; a rename in the
program makes `perfbench/run.py --trace 1` stop with a KeyError.  That test
only reads perfbench/.
"""

import ast
import glob
import importlib.util
import os
import re
import subprocess
import sys

import pytest

from lamplighter.limits import CAPS

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
    ("peak_rss.py", ["hamdiff", "--cyclic-range", "3:6"],
     "exit=0 lines=5 sha256=d30c8fc6439d655737bb5f5d09db4201e9476a75d0205fcdc995cdd44d736eeb wall_s="),
]


@pytest.mark.parametrize("script, args, expected", SCRIPT_RUNS,
                         ids=["verdict-table", "depth-profile-run", "peak-rss"])
def test_documented_script_runs(script, args, expected):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert any(" ".join(line.split()).startswith(expected) for line in proc.stdout.splitlines())


# Functions, classes and methods of src/ that no code in src/, scripts/ or
# perfbench/ names, each with the reason it is kept.  The tracer names its
# targets in strings, which the scan does not read.
KEPT_UNNAMED = {
    "hamiltonian.hamiltonian_path": "the Hamiltonian path decider README documents",
    "hamiltonian.analyze": "the all-pairs Hamiltonicity decider README documents",
    "tsp.ts_free_product": "public payload-level petal TS (README); traced by layertrace.py",
    "tsp.ts_free_product_walk": "public payload-level petal walk (README); traced by layertrace.py",
    "wreath.enumerate_ball": "public payload-level ball (README); traced by layertrace.py",
    "wreath.ts_walk": "public payload-level TS walk (README); traced by layertrace.py",
    "wreath.LamplighterModel.multiply": "the payload group law, the tests' oracle for _steps",
    "wreath.LamplighterModel.invert": "the payload inverse, the tests' oracle for the group law",
    "wreath.cleary_taback_witness": "the Cleary-Taback deep element the tests check",
    "wreath.bounded_depth_constant": "Theorem B's depth bound the acceptance tests check",
    "wreath.DepthProfile.max_depth": "the profile maximum the acceptance tests compare",
}


def _parsed():
    """(folder, module name, AST) of every Python file in src/, scripts/ and
    perfbench/."""
    for folder in ("src", "scripts", "perfbench"):
        for path in sorted(glob.glob(os.path.join(ROOT, folder, "**", "*.py"), recursive=True)):
            with open(path) as fh:
                yield folder, os.path.splitext(os.path.basename(path))[0], ast.parse(fh.read(), path)


def _definitions_and_names():
    """(module.name or module.Class.method of every top-level function,
    class and method in src/ but dunders and cmd_*, every identifier that
    src/, scripts/ and perfbench/ use)."""
    defined, named = [], set()
    for folder, module, tree in _parsed():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name.rpartition(".")[2])
        if folder != "src":
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                defined += [f"{module}.{node.name}.{sub.name}" for sub in node.body
                            if isinstance(sub, ast.FunctionDef)]
    last = lambda name: name.rpartition(".")[2]
    defined = [d for d in defined
               if not (last(d).startswith("__") and last(d).endswith("__") or last(d).startswith("cmd_"))]
    return defined, named


def test_no_dead_public_api():
    defined, named = _definitions_and_names()
    unnamed = {d for d in defined if d.rpartition(".")[2] not in named}
    dead = sorted(unnamed - KEPT_UNNAMED.keys())
    assert not dead, f"src/ defines names no code uses; delete them or keep them in KEPT_UNNAMED: {dead}"
    stale = sorted(KEPT_UNNAMED.keys() - unnamed)
    assert not stale, f"KEPT_UNNAMED lists names that are gone or now used: {stale}"


def _defaulted_parameters(tree, module):
    """(module.qualified name, function name, parameter, index) of every
    parameter with a default of the functions in tree, methods and nested
    functions too.  index is the number of positional arguments before it in
    a call (a method's self or cls is not one), None for keyword-only."""
    out = []

    def visit(body, prefix, in_class):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.", True)
            elif isinstance(node, ast.FunctionDef):
                a, qualname = node.args, f"{prefix}{node.name}"
                pos = a.posonlyargs + a.args
                bound = int(in_class and bool(pos) and pos[0].arg in ("self", "cls"))
                first = len(pos) - len(a.defaults)
                out.extend((qualname, node.name, p.arg, i - bound) for i, p in enumerate(pos) if i >= first)
                out.extend((qualname, node.name, k.arg, None)
                           for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)
                visit(node.body, qualname + ".", False)

    visit(tree.body, module + ".", False)
    return out


def _calls(tree):
    """(callee name, positional count, keyword names, spread) of every call
    in tree; a call with *args or **kwargs (spread) may pass anything."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            spread = any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords)
            yield name, len(node.args), {k.arg for k in node.keywords}, spread


def test_every_default_is_passed():
    # the detectors themselves
    sample = ast.parse("def f(a, b=1, *, c=2): pass\nclass K:\n    def m(self, x=0):\n        def g(y=3): pass")
    assert _defaulted_parameters(sample, "s") == [
        ("s.f", "f", "b", 1), ("s.f", "f", "c", None), ("s.K.m", "m", "x", 0), ("s.K.m.g", "g", "y", 0)]
    assert list(_calls(ast.parse("o.f(1, b=2); g(*x)"))) == [("f", 1, {"b"}, False), ("g", 1, set(), True)]

    # a default that no call in src/, scripts/ or perfbench/ overrides is a
    # knob nothing sets: delete it with the code that only serves it.  Calls
    # match by callee name, and KEPT_UNNAMED's test-facing functions are exempt
    params, calls = [], {}
    for folder, module, tree in _parsed():
        for name, n, keywords, spread in _calls(tree):
            calls.setdefault(name, []).append((n, keywords, spread))
        if folder == "src":
            params += _defaulted_parameters(tree, module)
    unpassed = sorted(
        f"{qualname}({param})" for qualname, name, param, index in params
        if qualname not in KEPT_UNNAMED
        and not any(spread or param in keywords or (index is not None and n > index)
                    for n, keywords, spread in calls.get(name, ()))
    )
    assert not unpassed, f"src/ parameters whose default no call overrides: {unpassed}"


CAP_NAME = re.compile(r"_CAP$|^_?MAX_")


def _int_literal(node) -> bool:
    """True when node is an expression of literals only that evaluates to an int."""
    if any(isinstance(n, (ast.Name, ast.Attribute, ast.Call, ast.Lambda)) for n in ast.walk(node)):
        return False
    return type(eval(compile(ast.Expression(node), "<constant>", "eval"), {})) is int


def _cap_constants(tree):
    """Names of the module-level int constants of tree named like a cap."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        names += [t.id for t in targets
                  if isinstance(t, ast.Name) and CAP_NAME.search(t.id) and _int_literal(node.value)]
    return names


def _caps_read(tree):
    """The CAPS keys that tree reads: CAPS["NAME"] and env_cap("NAME")."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript):
            owner, key = node.value, node.slice
        elif isinstance(node, ast.Call) and node.args:
            owner, key = node.func, node.args[0]
        else:
            continue
        name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
        if name in ("CAPS", "env_cap") and isinstance(key, ast.Constant):
            read.add(key.value)
    return read


def test_caps_live_in_the_limits_table():
    # the detectors themselves, on the shapes the caps had before the table
    old = ast.parse("_DP_CAP = 24\nMAX_REQUIRED: int = 22\nDEFAULT_BALL_CAP = 2 * 10**5\nMAX_NAME = 'x'")
    assert _cap_constants(old) == ["_DP_CAP", "MAX_REQUIRED", "DEFAULT_BALL_CAP"]
    assert _caps_read(ast.parse("CAPS['A'] + limits.CAPS['B'] + env_cap('C')")) == {"A", "B", "C"}

    stray, env_readers, read = [], [], set()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "lamplighter", "*.py"))):
        module = os.path.basename(path)
        if module == "limits.py":
            continue
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        stray += [f"{module}: {name}" for name in _cap_constants(tree)]
        if any(isinstance(n, ast.Constant) and n.value == "LAMPLIGHTER_CAP" for n in ast.walk(tree)):
            env_readers.append(module)
        read |= _caps_read(tree)
    assert not stray, f"cap constants outside limits.CAPS: {stray}"
    assert not env_readers, f"LAMPLIGHTER_CAP read outside limits.py: {env_readers}"
    dead = sorted(CAPS.keys() - read)
    assert not dead, f"limits.CAPS entries that no module reads: {dead}"


def test_limits_table_rows_match_caps():
    # one README "Limits" row per limits.CAPS entry, and no row for a cap
    # that has retired
    with open(os.path.join(ROOT, "README.md")) as fh:
        section = fh.read().split("\n## Limits\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \|", section, re.MULTILINE)
    assert len(rows) >= 8
    doubled = sorted({name for name in rows if rows.count(name) > 1})
    assert not doubled, f"caps with more than one README Limits row: {doubled}"
    assert not CAPS.keys() - set(rows), f"caps without a README Limits row: {sorted(CAPS.keys() - set(rows))}"
    assert not set(rows) - CAPS.keys(), f"README Limits rows for no live cap: {sorted(set(rows) - CAPS.keys())}"
