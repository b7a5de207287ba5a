"""sympeps benchmark: four CLI workloads timed end to end, plus a traced run.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 22 --trace 0

Each item is one in-process ``sympeps.cli.main(argv)`` call on files this
script generated from ``--seed``; stdout and stderr are captured.  One client
runs the items in a closed loop (the next item starts when the previous one
returns) in this single-threaded process.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced passes and passes with
spans around the program's layer functions over the first variants of the
same slots, and reports the per-layer metrics.  The last stdout line is the result
JSON; the line before it holds the run's details (machine facts, input
digest, stdout digest, failures).  See perfbench/README.md.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

# Pin BLAS to one thread before numpy is imported, here and in subprocesses.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = ".perfbench"  # relative to ROOT; program-visible paths never name the checkout

sys.path.insert(0, HERE)

import workloads  # noqa: E402  (imports numpy: after the pinning above)

# setup_s is the median of SETUP_GROUPS group minima; the groups are spread
# over the timed phase, so that they sample the host at different moments.
SETUP_GROUPS, SETUP_GROUP_SIZE = 5, 3
# No pass starts after CAP_FACTOR * --seconds of timed phase: when the host
# is slow, a run makes fewer variants rather than overrunning its time.
CAP_FACTOR = 1.3
SPIN_REPEATS = 3


def _fail_setup(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


# -- machine facts --------------------------------------------------------------


def spin_ms() -> float:
    """Median time of a fixed pure-Python loop: a slow machine shows here."""
    times = []
    for _ in range(SPIN_REPEATS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += i * i
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def machine_facts(np) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS[:3]},
        "platform": platform.platform(),
        "spin_ms": spin_ms(),
    }


def setup_group() -> float:
    """Fastest wall time of SETUP_GROUP_SIZE fresh ``python -m sympeps.cli
    --version`` processes: interpreter, imports and parser."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(SETUP_GROUP_SIZE):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "sympeps.cli", "--version"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0 or not proc.stdout.startswith("sympeps "):
            _fail_setup(f"`sympeps --version` failed: rc={proc.returncode} {proc.stderr.strip()[-300:]}")
    return min(times)


def percentile(values: list, q: float) -> float:
    """The q-quantile with linear interpolation between order statistics
    (``statistics.quantiles(..., method="inclusive")``, for any count)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# -- running items --------------------------------------------------------------


class Runner:
    """Runs pool items through ``cli.main`` and checks every output, outside
    the measured latency."""

    def __init__(self, cli, pool):
        self.cli = cli
        self.pool = pool
        self.stdout_sizes: dict = {}  # (slot, variant) -> bytes of stdout
        self._first_hash = hashlib.sha256()
        self._first_done = 0
        self.attempted = 0
        self.failures: list = []

    def execute(self, slot: int, variant: int):
        """Run and check one item; return its latency in seconds and whether
        it passed."""
        item = self.pool[slot][variant]
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        problem = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(list(item.argv))
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # the program raised: a failed item, not a crashed benchmark
                rc = None
                problem = "exception: " + traceback.format_exc(limit=3).strip().splitlines()[-1]
            latency = time.perf_counter() - t0
        text = out.getvalue()
        if problem is None and rc != 0:
            problem = f"exit code {rc}: {err.getvalue().strip()[-300:]}"
        if problem is None:
            problem = item.check(text)
        data = text.encode("utf-8")
        self.stdout_sizes[slot, variant] = len(data)
        if variant == 0 and slot == self._first_done:  # pass 0 runs the slots in order
            self._first_hash.update(data)
            self._first_done += 1
        if problem is not None:
            self.failures.append({"slot": slot, "variant": variant, "argv": list(item.argv), "reason": problem})
        return latency, problem is None

    def stdout_sha256(self):
        """sha256 of the concatenated stdout of the first variant of every
        slot, or None when not all of them ran."""
        return self._first_hash.hexdigest() if self._first_done == len(self.pool) else None


def run_passes(runner: Runner, variants, best: dict, deadline: float = math.inf, on_item=None) -> int:
    """For each variant in turn, run that variant of every slot (one pass),
    and keep each slot's fastest latency in ``best`` as ``(failed, seconds)``;
    return the number of passes made.  A failed item has no latency: it
    counts only in ``failed``, unless every variant of its slot failed.

    The machine's speed drifts by tens of percent within seconds, and a
    drift can only slow an item down; many variants of a slot, spaced a pass
    apart, let the slot meet fast moments.  No pass starts after
    ``deadline`` (a ``time.perf_counter`` value), so a very slow build still
    finishes.
    """
    passes = 0
    for variant in variants:
        if time.perf_counter() > deadline:
            break
        for slot in range(len(runner.pool)):
            if on_item is not None:
                on_item()
            latency, ok = runner.execute(slot, variant)
            best[slot] = min((not ok, latency), best.get(slot, (True, math.inf)))
        passes += 1
    return passes


# -- per-layer metrics ------------------------------------------------------------


def layer_metrics(tracer, per_layer: list, items: int, stdout_bytes: float, overhead: float) -> dict:
    """Every ``per_layer`` metric of BENCHMARK.json, per item of the traced phase."""
    table = tracer.aggregate()

    def row(name):
        return table.get(name, {"calls": 0, "self_ns": 0})

    metrics = {}
    for spec in per_layer:
        name = spec["name"]
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            value = row(base)["calls"] / items
        elif kind == "self_ms":
            value = row(base)["self_ns"] / 1e6 / items
        else:
            continue
        metrics[name] = value
    certs = {"symplectic.check_eps_nonsqueezing", "symplectic.check_eps_nonexpanding",
             "symplectic.capacity_preservation_check"}
    ellipsoids = sum(tracer.results.get("symplectic.check_eps_nonsqueezing", []))
    spectra = tracer.calls_within("symplectic.symplectic_spectrum", certs)
    metrics.update({
        "cli.stdout_bytes": stdout_bytes,
        "symplectic.spectra_per_ellipsoid": spectra / ellipsoids if ellipsoids else 0.0,
        "moser.rk4_steps": sum(tracer.results.get("moser.symplectify", [])) / items,
        "trace.overhead_frac": overhead,
    })
    return {spec["name"]: {"value": metrics[spec["name"]], "unit": spec["unit"]} for spec in per_layer}


# -- main ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sympeps", "cli.py")):
        _fail_setup(f"no sympeps sources under {SRC}; run from a full checkout")
    os.chdir(ROOT)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    sys.path.insert(0, SRC)
    import numpy as np
    import tracing
    from sympeps import cli

    spec = workloads.WORKLOADS[args.workload]
    facts = machine_facts(np)

    # Untraced, the pool is sized so that one pass per variant takes about
    # `seconds` at the seed commit: the work is fixed, not the time.
    if args.trace:
        variants = 2 * spec.trace_pairs
    else:
        variants = max(1, round(args.seconds * spec.rate / spec.slots))
    work_dir = os.path.join(WORK, args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    pool, input_digest = spec.build(args.seed, work_dir, variants)
    runner = Runner(cli, pool)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "slots": len(pool), "variants": variants, "input_sha256": input_digest, "machine": facts,
    }
    if args.trace:
        # Untraced (even) and traced (odd) passes alternate, so drift in
        # machine speed hits both sides of trace.overhead_frac alike.
        tracer = tracing.Tracer(keep_results={
            "moser.symplectify": lambda acc, rep: acc.append(rep.steps),
            "symplectic.check_eps_nonsqueezing": lambda acc, rep: acc.append(len(rep.records)),
        })
        plain: dict = {}
        traced: dict = {}
        for variant in range(variants):
            if variant % 2 == 0:
                if tracing.find_wrappers():
                    _fail_setup("tracing wrappers present before an untraced pass")
                run_passes(runner, [variant], plain)
                continue
            tracer.install()
            try:
                run_passes(runner, [variant], traced,
                           on_item=lambda: setattr(tracer, "current_item", runner.attempted))
            finally:
                tracer.uninstall()
        leftover = tracing.find_wrappers()
        if leftover:
            _fail_setup(f"tracing wrappers left after uninstall: {leftover[:5]}")
        items = spec.trace_pairs * len(pool)
        overhead = 1.0 - sum(t for _, t in plain.values()) / sum(t for _, t in traced.values())
        stdout_bytes = sum(size for (_, v), size in runner.stdout_sizes.items() if v % 2) / items
        metrics = layer_metrics(tracer, bench["per_layer"], items, stdout_bytes, overhead)
        spans_path = os.path.join(WORK, f"spans-{args.workload}.tsv")
        tracer.write(spans_path)
        detail.update({"traced_items": items, "spans": len(tracer), "spans_file": spans_path})
    else:
        best: dict = {}
        setups = []
        passes = 0
        start = time.perf_counter()
        deadline = start + CAP_FACTOR * args.seconds
        for chunk in np.array_split(np.arange(variants), SETUP_GROUPS):
            setups.append(setup_group())
            passes += run_passes(runner, chunk.tolist(), best, deadline)
        best_ms = [best[i][1] * 1e3 for i in range(len(pool))]
        metrics = {
            # The reciprocal of the mean per-slot best latency, not items over
            # wall time: the wall time also holds the output checks and every
            # slow stretch of the host.
            "items_per_s": {"value": 1e3 * len(best_ms) / sum(best_ms), "unit": "1/s"},
            "item_p50_ms": {"value": percentile(best_ms, 0.5), "unit": "ms"},
            "item_p90_ms": {"value": percentile(best_ms, 0.9), "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
        metrics = {m["name"]: metrics[m["name"]] for m in bench["end_to_end"]}
        detail.update({"passes": passes, "timed_s": time.perf_counter() - start, "setup_group_s": setups})

    failed = len(runner.failures)
    detail.update({
        "stdout_sha256": runner.stdout_sha256(),
        "attempted": runner.attempted,
        "failed_frac": failed / runner.attempted,
        "failures": runner.failures[:20],
    })
    shutil.rmtree(work_dir, ignore_errors=True)

    for fail in runner.failures[:20]:
        sys.stderr.write(f"FAILED slot {fail['slot']} variant {fail['variant']}: {' '.join(fail['argv'])}\n"
                         f"  {fail['reason']}\n")
    sys.stderr.write(f"{args.workload} seed={args.seed} trace={args.trace}: "
                     f"{runner.attempted} items, failed_frac={detail['failed_frac']:.4g}\n")
    for name, m in metrics.items():
        sys.stderr.write(f"  {name:<48} {m['value']:>14.6g} {m['unit']}\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
