"""The four workloads: how each builds its item pool and checks each output.

A pool is a short list of slots, each a tuple of many ``variants``: items of
the slot's shape (same n, or same (m, k), index slots and monomials) with
the map, coefficients or points drawn afresh, so that no input
runs twice and a cache keyed on input content sees only misses, as with
real traffic.  A slot's latency is the fastest of its variants; few slots
with many variants each make that minimum steady on a noisy host.  An item
is ``Item(argv, check)``; ``check(stdout)`` returns None for a correct
output or a one-line reason.  Checks are the benchmark's own and use no
``sympeps`` code: exit code 0 and the report's verdict on every item, plus
one independent property per workload.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import Callable, NamedTuple

import numpy as np

import inputs

TRIALS = 32            # random ellipsoids per certify item
RESIDUAL_TOL = 1e-6    # defect of Phi psi that a corrected map must meet


class Item(NamedTuple):
    argv: tuple
    check: Callable[[str], "str | None"]


class Workload(NamedTuple):
    build: Callable     # (seed, directory, variants) -> (pool, input digest)
    slots: int          # slots in the pool
    rate: float         # items/s at the seed commit (2-core x86 VM) with checks
                        # and setup_s groups, sizes the pool
    trace_pairs: int    # untraced + traced pass pairs in a traced run


def _streams(seed: int, stream: int):
    """A generator for the slots' shapes, and one per slot for its variants,
    so that the first k variants of a slot do not depend on how many a run
    makes.  ``stream`` keeps the workloads' draws apart."""
    return np.random.default_rng([seed, stream]), lambda slot: np.random.default_rng([seed, stream, slot + 1])


def _report(stdout: str):
    try:
        return json.loads(stdout), None
    except ValueError as exc:
        return None, f"stdout is not JSON: {exc}"


# -- certify ------------------------------------------------------------------------

# n of the certify slots, in an order shuffled per seed.  Item latency clusters
# tightly by n (medians about 20, 28, 48 and 100 ms at the seed commit), so
# with n equally frequent the median would sit on the gap between the n=2
# and n=3 clusters.  Counts 2:2:2:1 put p50 inside the n=2 cluster and p90
# between the n=3 and n=4 clusters.
CERTIFY_NS = (1, 1, 2, 2, 3, 3, 4) * 2


def _check_certify(n: int):
    def check(stdout: str):
        rep, err = _report(stdout)
        if err:
            return err
        if rep.get("passed") is not True:
            return "certify verdict is not PASS"
        # Canonical grid for n <= 4: the unit ball plus every plane-diagonal
        # combination of radii (0.5, 1, 2) other than all ones, 3^n in total.
        expected = 3**n + TRIALS
        if rep.get("ellipsoids") != expected:
            return f"ellipsoid count {rep.get('ellipsoids')} != {expected}"
        for key in ("nonsqueezing", "nonexpanding", "capacity"):
            cert = rep.get(key)
            if not isinstance(cert, dict) or cert.get("passed") is not True:
                return f"certificate {key} missing or not passed"
            if len(cert.get("records", ())) != expected:
                return f"certificate {key} has {len(cert.get('records', ()))} records, expected {expected}"
        return None

    return check


def build_certify(seed: int, directory: str, variants: int):
    files = inputs.InputSet(directory)
    pool = []
    shapes, slot_rng = _streams(seed, 1)
    for i, n in enumerate(shapes.permutation(CERTIFY_NS).tolist()):
        rng = slot_rng(i)
        eps = float(rng.uniform(0.0, 0.2))
        slot = []
        for v in range(variants):
            phi = inputs.eps_symplectic(rng, n, eps)
            path = files.write(f"map-{i:04d}-{v}.txt", inputs.matrix_text(phi))
            argv = ("certify", path, "--eps", repr(inputs.round_up(inputs.defect(phi))),
                    "--trials", str(TRIALS), "--seed", str(int(rng.integers(2**31))))
            files.note(" ".join(argv))
            slot.append(Item(argv, _check_certify(n)))
        pool.append(tuple(slot))
    return pool, files.digest()


# -- symplectify --------------------------------------------------------------------


def _check_symplectify(phi: np.ndarray, psi_path: str):
    def check(stdout: str):
        rep, err = _report(stdout)
        if err:
            return err
        if rep.get("report", {}).get("passed") is not True:
            return "symplectify verdict is not PASS"
        psi = inputs.load_matrix_text(psi_path)
        residual = inputs.defect(phi @ psi)
        if not residual <= RESIDUAL_TOL:
            return f"defect of Phi psi from {psi_path} is {residual:.3e} > {RESIDUAL_TOL}"
        return None

    return check


SYMPLECTIFY_NS = (1, 2, 3, 4) * 2


def build_symplectify(seed: int, directory: str, variants: int):
    files = inputs.InputSet(directory)
    pool = []
    shapes, slot_rng = _streams(seed, 2)
    for i, n in enumerate(shapes.permutation(SYMPLECTIFY_NS).tolist()):
        rng = slot_rng(i)
        eps = float(rng.uniform(0.0, 0.6))
        slot = []
        for v in range(variants):
            phi = inputs.eps_symplectic(rng, n, eps)
            path = files.write(f"map-{i:04d}-{v}.txt", inputs.matrix_text(phi))
            psi_path = f"{directory}/psi-{i:04d}-{v}.txt"
            argv = ("symplectify", path, "--eps", repr(inputs.round_up(inputs.defect(phi))), "--out", psi_path)
            files.note(" ".join(argv))
            slot.append(Item(argv, _check_symplectify(phi, psi_path)))
        pool.append(tuple(slot))
    return pool, files.digest()


# -- homotopy -----------------------------------------------------------------------


def _check_homotopy(m: int, k: int, points: int):
    def check(stdout: str):
        rep, err = _report(stdout)
        if err:
            return err
        if rep.get("identity_exact") is not True:
            return "identity h(d f) + d(h f) = f not exact"
        if rep.get("passed") is not True:
            return "homotopy verdict is not PASS"
        bounds = rep.get("bounds") or {}
        if bounds.get("passed") is not True or len(bounds.get("margins", ())) != points:
            return "norm-bound report missing, short or failed"
        return _check_form(rep.get("h"), m, k - 1)

    return check


def _check_form(form, m: int, k: int):
    """The primitive parses back as an m-dimensional polynomial k-form."""
    try:
        if form["m"] != m or form["k"] != k:
            return f"h has (m, k) = ({form['m']}, {form['k']}), expected ({m}, {k})"
        for term in form["terms"]:
            index = term["index"]
            if len(index) != k or any(not 1 <= i <= m for i in index) or index != sorted(set(index)):
                return f"h has invalid index {index}"
            for mono in term["poly"]:
                if len(mono["exp"]) != m or min(mono["exp"], default=0) < 0:
                    return f"h has invalid exponent {mono['exp']}"
                if int(mono["den"]) <= 0 or int(mono["num"]) == 0:
                    return f"h has invalid coefficient {mono['num']}/{mono['den']}"
    except (KeyError, TypeError, ValueError) as exc:
        return f"h does not parse: {exc!r}"
    return None


HOMOTOPY_SHAPES = tuple(itertools.product((5, 6, 7), (1, 2, 3)))  # (m, k)
# Six slots per (m, k): a slot's cost depends strongly on its random index
# slots and monomials, and with fewer slots the median slot moves from seed
# to seed.
HOMOTOPY_SLOTS = 6 * len(HOMOTOPY_SHAPES)
POINTS = 8


def build_homotopy(seed: int, directory: str, variants: int):
    """Variants of a slot share (m, k), index slots and monomials; the
    coefficients and points are drawn afresh."""
    files = inputs.InputSet(directory)
    pool = []
    shapes, slot_rng = _streams(seed, 3)
    for i, j in enumerate(shapes.permutation(HOMOTOPY_SLOTS).tolist()):
        m, k = HOMOTOPY_SHAPES[j % len(HOMOTOPY_SHAPES)]
        shape = inputs.random_form_shape(shapes, m, k)
        rng = slot_rng(i)
        slot = []
        for v in range(variants):
            form = inputs.random_form(rng, m, k, shape)
            form_path = inputs.write_json(files, f"form-{i:04d}-{v}.json", form)
            points = inputs.random_points(rng, m, POINTS)
            points_path = inputs.write_json(files, f"points-{i:04d}-{v}.json", points)
            argv = ("homotopy", form_path, points_path)
            files.note(" ".join(argv))
            slot.append(Item(argv, _check_homotopy(m, k, POINTS)))
        pool.append(tuple(slot))
    return pool, files.digest()


# -- analyze ------------------------------------------------------------------------

CLASSES = {"symplectic-like": 1, "anti-symplectic-like": -1, "mixed": 0}


def _check_analyze(phi: np.ndarray):
    """The reported defect is the benchmark's own; lambda_j^2 are the
    singular values of Phi^T J Phi, each of which occurs twice; and the
    reported invariants satisfy the decomposition
    defect^2 = sum_j (lambda_j^2 - s_j mu_j^2)^2 + n - sum_j mu_j^4."""
    n = phi.shape[0] // 2
    d = inputs.defect(phi)
    J = inputs.complex_structure(n)
    pairs = np.linalg.svd(phi.T @ J @ phi, compute_uv=False)[::-1][::2]

    def check(stdout: str):
        rep, err = _report(stdout)
        if err:
            return err
        if rep.get("within_eps") is not True:
            return "analyze verdict: defect not within its budget"
        if abs(rep.get("defect", math.inf) - d) > 1e-9:
            return f"defect {rep.get('defect')} != {d}"
        kind = rep.get("classification")
        if kind not in CLASSES:
            return f"classification {kind!r}"
        try:
            lam2 = np.square(rep["lambdas"])
            mu2 = np.square(rep["mus"])
            signs = np.array(rep["signs"])
        except (KeyError, TypeError, ValueError) as exc:
            return f"invariants do not parse: {exc!r}"
        if not lam2.shape == mu2.shape == signs.shape == (n,):
            return f"invariants have shapes {lam2.shape}, {mu2.shape}, {signs.shape}; expected ({n},)"
        if not set(signs.tolist()) <= {-1, 1} or (CLASSES[kind] and set(signs.tolist()) != {CLASSES[kind]}):
            return f"signs {signs.tolist()} do not match {kind}"
        if not np.allclose(np.sort(lam2), pairs, rtol=1e-8, atol=1e-10):
            return f"lambda^2 {np.sort(lam2).tolist()} != singular value pairs {pairs.tolist()}"
        # The right side is a difference of O(n) terms of size about 1, so
        # near d = 0 it carries an absolute roundoff of some 1e-15: a
        # relative tolerance alone would fail correct outputs for tiny d.
        tol = 1e-12 + 1e-8 * d * d
        rhs = float(np.sum((lam2 - signs * mu2) ** 2) + n - np.sum(mu2**2))
        if abs(rhs - d * d) > tol:
            return f"decomposition of defect^2: {rhs} != {d * d}"
        reported = rep.get("decomposition") or {}
        if not all(abs(reported.get(side, math.inf) - d * d) <= tol for side in ("lhs", "rhs")):
            return f"decomposition check {reported} does not match defect^2 = {d * d}"
        return None

    return check


# Latency is nearly flat in n (about 2 ms at the seed commit), so every n
# is equally frequent.
ANALYZE_NS = (1, 2, 3, 4) * 4


def build_analyze(seed: int, directory: str, variants: int):
    files = inputs.InputSet(directory)
    pool = []
    shapes, slot_rng = _streams(seed, 4)
    for i, n in enumerate(shapes.permutation(ANALYZE_NS).tolist()):
        rng = slot_rng(i)
        eps = float(rng.uniform(0.0, 0.6))
        slot = []
        for v in range(variants):
            phi = inputs.eps_symplectic(rng, n, eps)
            path = files.write(f"map-{i:04d}-{v}.txt", inputs.matrix_text(phi))
            argv = ("analyze", path, "--eps", repr(inputs.round_up(inputs.defect(phi))))
            files.note(" ".join(argv))
            slot.append(Item(argv, _check_analyze(phi)))
        pool.append(tuple(slot))
    return pool, files.digest()


WORKLOADS = {
    "certify": Workload(build_certify, len(CERTIFY_NS), rate=25.0, trace_pairs=3),
    "symplectify": Workload(build_symplectify, len(SYMPLECTIFY_NS), rate=40.0, trace_pairs=3),
    "homotopy": Workload(build_homotopy, HOMOTOPY_SLOTS, rate=85.0, trace_pairs=2),
    "analyze": Workload(build_analyze, len(ANALYZE_NS), rate=270.0, trace_pairs=2),
}
