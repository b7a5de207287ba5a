"""Every src function that no CLI command reaches is listed here, with its reason.

``SCRIPT`` runs in a fresh ``python`` process with ``PYTHONPATH=src``, so
neither earlier tests nor the ``lru_cache``s of ``cli._parser``,
``_standard_J`` and ``_line_encoder`` can hide a call or add one.  It
collects every function, method, classmethod and property getter whose code
lies under ``src/sympeps``, as ``module.qualname`` (the methods that
dataclass and NamedTuple generate lie elsewhere and drop out).  Then it runs
``cli.main`` under ``sys.setprofile`` on fixed inputs, and prints the exit
codes and the functions that no command called.

That set must equal the keys of ``UNREACHED``.  A new function that nothing
reaches fails the test until it is listed with a reason, and so does an entry
whose function is reached or gone.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

UNREACHED = {
    "symplectic.squeezing_params": "bound by the benchmark tracer, perfbench/tracing.py (ROADMAP item 4)",
    "symplectic.capacity_preservation_check": "bound by the benchmark tracer, perfbench/tracing.py (ROADMAP item 4)",
    "symplectic.asymmetric_defect_map": "called by the fixed acceptance tests, tests/test_acceptance.py",
    "symplectic.check_eps_nonsqueezing": "called by the fixed acceptance tests, tests/test_acceptance.py",
    "symplectic.check_eps_nonexpanding": "called by the fixed acceptance tests, tests/test_acceptance.py",
    "polyform.PolyForm.basis": "called by the benchmark tracer's self-test, perfbench/selftest.py",
    "symplectic.hyperplane_squeeze": "ROADMAP item 2: a witness builder for the tight width parameter, or deleted",
}

SCRIPT = r'''
import contextlib, importlib, inspect, io, json, os, pkgutil, sys

import sympeps

root = os.path.dirname(os.path.abspath(sympeps.__file__)) + os.sep
names = {}


def collect(obj, module):
    obj = inspect.unwrap(obj)
    if isinstance(obj, (staticmethod, classmethod)):
        obj = obj.__func__
    elif isinstance(obj, property):
        obj = obj.fget
    code = getattr(obj, "__code__", None)
    if code is not None and code.co_filename.startswith(root):
        names[code] = module + "." + obj.__qualname__


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
forms = {
    "form2.json": ([1, 2], [1, 0, 2], "3"),
    "form1.json": ([1], [0, 1, 0], "1"),
    "const.json": ([1, 2], [0, 0, 0], "2"),
}
for path, (index, exp, num) in forms.items():
    terms = [{"index": index, "poly": [{"exp": exp, "num": num, "den": "2"}]}]
    json.dump({"m": 3, "k": len(index), "terms": terms}, open(path, "w"))
json.dump([[0.1, 0.2, -0.3], [0.0, 0.5, 0.1]], open("points.json", "w"))
commands = [
    "analyze matrix.txt",
    "analyze matrix.json --format text --eps 0.1",
    "certify matrix.txt --eps 0.1",
    "symplectify matrix.txt --eps 0.1 --out psi.txt",
    "symplectify matrix.txt --eps 0.1 --out psi.json",
    "bounds --eps 0.1 --n 2",
    "homotopy form2.json points.json --out h.json",
    "homotopy form1.json points.json",
    "homotopy const.json points.json",
    "suite --scale smoke",
]

from sympeps import cli

reached = set()


def profile(frame, event, arg):
    if event == "call":
        reached.add(frame.f_code)


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
}))
'''


def _trace(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_unreached_functions_are_exactly_the_listed_ones(tmp_path):
    result = _trace(tmp_path)
    assert result["codes"] == {command: 0 for command in result["codes"]}
    unreached = set(result["unreached"])
    assert sorted(unreached - UNREACHED.keys()) == [], "reached by no command: delete it, or list it with a reason"
    assert sorted(UNREACHED.keys() - unreached) == [], "listed, but reached or gone: drop the entry"
    assert all(reason.strip() for reason in UNREACHED.values())
