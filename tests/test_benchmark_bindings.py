"""The names that the benchmark's tracer and its self-test bind must exist.

``perfbench/tracing.py`` wraps each ``TRACED`` function on its module and
each ``Class.method`` in ``vars(Class)``; a missing name fails only in a
``--trace 1`` run.  Both files are read with ``ast``, not imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _assigned_value(filename, target):
    """The AST of the value assigned to the name ``target`` in a perfbench file."""
    tree = ast.parse((PERFBENCH / filename).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == target for t in node.targets):
            return node.value
    raise AssertionError(f"{filename} assigns no {target}")


TRACED = ast.literal_eval(_assigned_value("tracing.py", "TRACED"))
TRACED_NAMES = [(module, name) for module, names in TRACED.items() for name in names]
SECOND_BINDINGS = [key.value for key in _assigned_value("selftest.py", "second_bindings").keys]


def _module(short):
    return importlib.import_module("sympeps" if short == "sympeps" else f"sympeps.{short}")


def _traced_functions():
    return [getattr(_module(m), name, None) for m, name in TRACED_NAMES if "." not in name]


@pytest.mark.parametrize("module, name", TRACED_NAMES, ids=[f"{m}.{n}" for m, n in TRACED_NAMES])
def test_traced_name_exists_where_the_tracer_wraps_it(module, name):
    if "." in name:
        cls_name, attr = name.split(".")
        assert attr in vars(getattr(_module(module), cls_name))
    else:
        assert callable(getattr(_module(module), name))


@pytest.mark.parametrize("binding", SECOND_BINDINGS)
def test_second_binding_is_a_traced_function(binding):
    module, name = binding.split(".")
    value = getattr(_module(module), name)
    assert any(value is traced for traced in _traced_functions())


def test_bindings_were_read():
    assert TRACED_NAMES and SECOND_BINDINGS
