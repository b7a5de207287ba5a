"""Spans around the program's layer functions, installed from outside.

``Tracer.install`` replaces every binding of each traced function with a
wrapper: the defining module's attribute and every second binding that a
``from .x import y`` made in another ``sympeps`` module (``polyform.norm2``,
``moser.defect``, the package namespace, ...).  Methods are wrapped on their
class.  Each call records a span (name, start, end, parent span, item id) in
flat in-memory arrays; ``write`` dumps them when the run ends.
``uninstall`` puts every original back, and ``find_wrappers`` proves it.

Only layer functions are wrapped.  Leaf helpers (``poly_add``,
``standard_J``, ...) are not: their time is self time of the layer function
that called them, which is where a change to them shows.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

# (module, function) pairs; "Class.method" names a method wrapped on the class.
TRACED = {
    "cli": ("main", "build_parser"),
    "symplectic": (
        "defect", "symplectic_spectrum", "squeezing_params",
        "check_eps_nonsqueezing", "check_eps_nonexpanding", "capacity_preservation_check",
        "standard_form", "lambda_mu_invariants", "defect_decomposition_check",
        "load_matrix", "save_matrix",
    ),
    "moser": ("symplectify",),
    "polyform": (
        "d", "alpha", "iota_radial", "h", "homotopy_identity_check", "evaluate", "h_bound_check",
        "PolyForm.__post_init__", "PolyForm.from_json_dict", "PolyForm.to_json_dict",
    ),
    "exterior": ("check_multi_index", "norm2", "Covector.__post_init__"),
    "suite": ("random_ellipsoid",),
}

# A span's name: "<module>.<function>", with __post_init__ shown as "construct".
def span_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname.replace('__post_init__', 'construct')}"


PACKAGE = "sympeps"
_MARK = "__perfbench_span__"


def _package_modules() -> list:
    return [
        (name, module) for name, module in list(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def find_wrappers() -> list:
    """Every attribute of a loaded ``sympeps`` module or of a class defined
    there that is still a tracing wrapper."""
    found = []
    for modname, module in _package_modules():
        for attr, value in vars(module).items():
            if hasattr(value, _MARK):
                found.append(f"{modname}.{attr}")
            if isinstance(value, type) and value.__module__ == modname:
                for name, member in vars(value).items():
                    if hasattr(getattr(member, "__func__", member), _MARK):
                        found.append(f"{modname}.{attr}.{name}")
    return found


class Tracer:
    def __init__(self, keep_results=None):
        self.names: list = []
        self.name_ids: dict = {}
        self.span_name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.item = array("i")
        self.current_item = -1
        self._stack: list = []
        self._restore: list = []
        # span name -> keep(list, returned value), for counts that only the
        # result carries (RK4 steps, records certified); lists in `results`.
        self.keep_results: dict = keep_results or {}
        self.results: dict = {}

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for short in TRACED:
            importlib.import_module(f"{PACKAGE}.{short}")
        modules = [module for _, module in _package_modules()]
        for short, functions in TRACED.items():
            module = sys.modules[f"{PACKAGE}.{short}"]
            for qualname in functions:
                name = span_name(short, qualname)
                if "." in qualname:
                    self._wrap_method(module, qualname, name)
                else:
                    self._wrap_function(modules, module, qualname, name)

    def _wrap_function(self, modules, module, attr, name) -> None:
        original = getattr(module, attr)
        wrapper = self._wrapper(original, name)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _wrap_method(self, module, qualname, name) -> None:
        cls_name, attr = qualname.split(".")
        cls = getattr(module, cls_name)
        raw = vars(cls)[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(self._wrapper(raw.__func__, name))
        else:
            replacement = self._wrapper(raw, name)
        self._restore.append((cls, attr, raw))
        setattr(cls, attr, replacement)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrapper(self, func, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self.name_ids[name]
        stack = self._stack
        keep = self.keep_results.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.span_name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.item.append(self.current_item)
            self.end.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if keep is not None:
                keep(self.results.setdefault(name, []), result)
            return result

        setattr(wrapper, _MARK, name)
        return wrapper

    # -- results --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def aggregate(self) -> dict:
        """Per span name: calls and self ns (duration minus the time covered
        by child spans)."""
        count = len(self.start)
        child_ns = [0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        table = {name: {"calls": 0, "self_ns": 0} for name in self.names}
        for i in range(count):
            row = table[self.names[self.span_name[i]]]
            row["calls"] += 1
            row["self_ns"] += self.end[i] - self.start[i] - child_ns[i]
        return table

    def calls_within(self, child: str, ancestors: set) -> int:
        """Number of ``child`` spans that have a span named in ``ancestors``
        above them."""
        if child not in self.name_ids:
            return 0
        child_id = self.name_ids[child]
        ancestor_ids = {self.name_ids[a] for a in ancestors if a in self.name_ids}
        hits = 0
        for i in range(len(self.start)):
            if self.span_name[i] != child_id:
                continue
            p = self.parent[i]
            while p >= 0:
                if self.span_name[p] in ancestor_ids:
                    hits += 1
                    break
                p = self.parent[p]
        return hits

    def write(self, path: str) -> None:
        """Spans as TSV: item, span id, parent span id, name, start and end in
        ns of ``time.perf_counter_ns``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("item\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.item[i]}\t{i}\t{self.parent[i]}\t{self.names[self.span_name[i]]}"
                    f"\t{self.start[i]}\t{self.end[i]}\n"
                )
