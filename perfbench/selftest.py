"""Self-test of the benchmark's tracing.

    python3 perfbench/selftest.py [--workloads certify,homotopy] [--seed 3]

1. In process: installing the tracer wraps every binding of a traced
   function, including second bindings made by ``from .x import y`` and the
   package namespace; uninstalling leaves no wrapper anywhere, and calls made
   afterwards record no span.
2. Two traced runs of ``run.py`` with the same seed report identical
   per-layer counts (every metric except times, which are in ms, and
   ``trace.overhead_frac``).  Each such run also checks, in its own process,
   that no wrapper is left before any untraced pass and at its end.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_wrapping() -> None:
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    import numpy as np

    import tracing
    import sympeps
    from sympeps import exterior, moser, polyform, symplectic

    tracer = tracing.Tracer()
    second_bindings = {
        "polyform.check_multi_index": lambda: polyform.check_multi_index,
        "polyform.norm2": lambda: polyform.norm2,
        "moser.defect": lambda: moser.defect,
        "sympeps.defect": lambda: sympeps.defect,
        "exterior.check_multi_index": lambda: exterior.check_multi_index,
    }
    tracer.install()
    try:
        unwrapped = [name for name, get in second_bindings.items() if not hasattr(get(), "__perfbench_span__")]
        assert not unwrapped, f"bindings left unwrapped: {unwrapped}"
        polyform.PolyForm.basis(3, (1, 2))
        symplectic.defect(np.eye(2))
        assert len(tracer) > 0, "traced calls recorded no span"
    finally:
        tracer.uninstall()
    leftover = tracing.find_wrappers()
    assert not leftover, f"wrappers left after uninstall: {leftover}"
    before = len(tracer)
    moser.defect(np.eye(4))
    polyform.PolyForm.basis(3, (1, 2))
    assert len(tracer) == before, "an untraced call recorded a span"
    print("wrapping: every binding wrapped, none left after uninstall")


def _traced_run(workload: str, seed: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_counts(workloads: list, seed: int) -> None:
    for workload in workloads:
        first = _traced_run(workload, seed)["metrics"]
        second = _traced_run(workload, seed)["metrics"]
        counts = [n for n, m in first.items() if m["unit"] != "ms" and n != "trace.overhead_frac"]
        differ = [n for n in counts if first[n]["value"] != second[n]["value"]]
        assert not differ, f"{workload}: counts differ between traced runs: {differ}"
        print(f"{workload}: {len(counts)} per-layer counts repeat exactly")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="certify,symplectify,homotopy,analyze")
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)
    check_wrapping()
    check_counts(args.workloads.split(","), args.seed)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
