"""Every src function that no CLI command reaches, and every defaulted
parameter of a reached function that no command sets, is listed here with
its reason.

``SCRIPT`` runs in a fresh ``python`` process with ``PYTHONPATH=src``, so
neither earlier tests nor the ``lru_cache``s of ``cli._parser``,
``standard_J`` and ``moser._segment_series`` can hide a call or add one.  It
collects every function, method, classmethod and property getter whose code
lies under ``src/sympeps``, as ``module.qualname`` (the methods that
dataclass and NamedTuple generate lie elsewhere and drop out), with the
parameters that have a default (``inspect.signature``).  Then it runs
``cli.main`` under ``sys.setprofile`` on fixed inputs.  At each call it reads
the defaulted parameters from the new frame: one is set when some call
passes a value that is not its default, neither the same object nor, for a
str, int, float or bool default, an equal value of the same type.  It prints
the exit codes, the functions that no command called and, as
``module.qualname.parameter``, the defaulted parameters of the called ones
that no call set.

Those sets must equal the keys of ``UNREACHED`` and of ``UNSET``.  A new
function that nothing reaches, or a new default that no command overrides,
fails the test until it is listed with a reason, and so does an entry whose
function is reached or gone, or whose parameter is set or gone.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

UNREACHED = {
    "symplectic.capacity_preservation_check": "bound by the benchmark tracer, perfbench/tracing.py (ROADMAP item 4)",
    "symplectic.asymmetric_defect_map": "called by the fixed acceptance tests, tests/test_acceptance.py",
    "symplectic.check_eps_nonsqueezing": "called by the fixed acceptance tests, tests/test_acceptance.py",
    "symplectic.check_eps_nonexpanding": "called by the fixed acceptance tests, tests/test_acceptance.py",
    "polyform.PolyForm.basis": "called by the benchmark tracer's self-test, perfbench/selftest.py",
    "polyform.d": "public API; the check uses `_d_terms`",
    "symplectic.load_matrix": "library path reader, bound by the benchmark tracer, perfbench/tracing.py (ROADMAP item 4)",
    "polyform.evaluate": "public API, bound by perfbench/tracing.py (ROADMAP item 4)",
}

UNSET = {
    "suite.run_suite.scale": "--scale full takes about 13 s; CI's full-scale step runs it",
    "suite.random_polyform.max_m": "the tests draw forms up to m = 7",
    "suite.random_polyform.max_k": "the tests draw forms up to m = 7",
    "suite.random_polyform.max_degree": "the tests draw forms up to m = 7",
}

SCRIPT = r'''
import contextlib, importlib, inspect, io, json, os, pkgutil, sys

import sympeps

root = os.path.dirname(os.path.abspath(sympeps.__file__)) + os.sep
names = {}
defaults = {}


def collect(obj, module):
    obj = inspect.unwrap(obj)
    if isinstance(obj, (staticmethod, classmethod)):
        obj = obj.__func__
    elif isinstance(obj, property):
        obj = obj.fget
    code = getattr(obj, "__code__", None)
    if code is not None and code.co_filename.startswith(root):
        names[code] = module + "." + obj.__qualname__
        params = inspect.signature(obj).parameters.values()
        given = {p.name: p.default for p in params if p.default is not p.empty}
        if given:
            defaults[code] = given


for info in pkgutil.iter_modules(sympeps.__path__):
    module = importlib.import_module("sympeps." + info.name)
    for value in vars(module).values():
        if inspect.isclass(value) and value.__module__ == module.__name__:
            for attr in vars(value).values():
                collect(attr, info.name)
        else:
            collect(value, info.name)

open("matrix.txt", "w").write("n 2\n1.02 0 0 0\n0 1.02 0 0\n0 0 1 0\n0 0 0 1\n")
json.dump({"n": 1, "rows": [[1.01, 0.0], [0.0, 1.0]]}, open("matrix.json", "w"))
# symplectic, condition 2.5e11: the bound kappa(phi) kappa(A) < 5e11 leaves phi A
# open for every ellipsoid with kappa(A) >= 2, and the SVD of those images runs
open("thin.txt", "w").write("n 2\n500000 0 0 0\n0 2e-06 0 0\n0 0 1 0\n0 0 0 1\n")
forms = {
    "form2.json": ([1, 2], [1, 0, 2], "3"),
    "form1.json": ([1], [0, 1, 0], "1"),
    "const.json": ([1, 2], [0, 0, 0], "2"),
}
for path, (index, exp, num) in forms.items():
    terms = [{"index": index, "poly": [{"exp": exp, "num": num, "den": "2"}]}]
    json.dump({"m": 3, "k": len(index), "terms": terms}, open(path, "w"))
# two terms of one index, which the parser adds
entry = {"exp": [0, 1, 0], "num": "1", "den": "2"}
json.dump({"m": 3, "k": 1, "terms": [{"index": [1], "poly": [entry]}] * 2}, open("repeat.json", "w"))
json.dump([[0.1, 0.2, -0.3], [0.0, 0.5, 0.1]], open("points.json", "w"))
commands = [
    "analyze matrix.txt",
    "analyze matrix.json --format text --eps 0.1",
    # diag(1.01, 1) has defect 0.01 to within its rounding bound: decided exactly
    "analyze matrix.json --eps 0.01",
    "certify matrix.txt --eps 0.1",
    "certify thin.txt --eps 0.1",
    "symplectify matrix.txt --eps 0.1 --out psi.txt",
    "symplectify matrix.txt --eps 0.1 --out psi.json",
    "bounds --eps 0.1 --n 2",
    "bounds --eps 0.1 --n 2 --out report.json",
    "homotopy form2.json points.json --out h.json",
    "homotopy form1.json points.json",
    "homotopy const.json points.json",
    "homotopy repeat.json points.json",
    "suite --scale smoke",
]

from sympeps import cli

reached = set()
overridden = set()


def is_default(value, default):
    if value is default:
        return True
    return type(value) is type(default) and type(value) in (str, int, float, bool) and value == default


def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        reached.add(code)
        for name, default in defaults.get(code, {}).items():
            if not is_default(frame.f_locals[name], default):
                overridden.add((code, name))


codes = []
for command in commands:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        sys.setprofile(profile)
        try:
            codes.append(cli.main(command.split()))
        finally:
            sys.setprofile(None)
print(json.dumps({
    "codes": dict(zip(commands, codes)),
    "unreached": sorted(name for code, name in names.items() if code not in reached),
    "unset": sorted(
        names[code] + "." + name
        for code, given in defaults.items() if code in reached
        for name in given if (code, name) not in overridden
    ),
}))
'''


@pytest.fixture(scope="module")
def trace(tmp_path_factory):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=tmp_path_factory.mktemp("trace"), env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == {command: 0 for command in result["codes"]}
    return result


def test_unreached_functions_are_exactly_the_listed_ones(trace):
    unreached = set(trace["unreached"])
    assert sorted(unreached - UNREACHED.keys()) == [], "reached by no command: delete it, or list it with a reason"
    assert sorted(UNREACHED.keys() - unreached) == [], "listed, but reached or gone: drop the entry"
    assert all(reason.strip() for reason in UNREACHED.values())


def test_unset_parameters_are_exactly_the_listed_ones(trace):
    unset = set(trace["unset"])
    assert sorted(unset - UNSET.keys()) == [], "no command sets this default: drop the parameter, or list it"
    assert sorted(UNSET.keys() - unset) == [], "listed, but set or gone: drop the entry"
    assert all(reason.strip() for reason in UNSET.values())
