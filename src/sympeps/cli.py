"""Command-line harness.

Subcommands: ``analyze`` (defect and conformality invariants of a matrix),
``certify`` (width and capacity certificates over ellipsoid batches),
``symplectify`` (Moser correction with verified bounds), ``bounds``
(closed-form constants), ``homotopy`` (exact primitive of a polynomial form),
and ``suite`` (the seeded property suites).

The JSON report goes to stdout and is byte-identical across runs with the
same inputs and seed; a human-readable summary, including wall time, goes to
stderr.  Exit codes: 0 success/pass, 1 certified failure, 2 input error.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import sys
import time

import numpy as np

from . import __version__, moser, polyform, suite, symplectic

DEFAULT_SEED = 20250810


def _sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _sha256_params(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _emit(report: dict, human_lines, fmt: str = "json", out_path=None, t0=None) -> None:
    payload = json.dumps(report, indent=2, allow_nan=False)
    if fmt == "json":
        sys.stdout.write(payload + "\n")
        for line in human_lines:
            sys.stderr.write(line + "\n")
    else:
        for line in human_lines:
            sys.stdout.write(line + "\n")
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    if t0 is not None:
        sys.stderr.write(f"wall time: {time.perf_counter() - t0:.3f} s\n")


def _load_matrix_or_exit(path: str) -> np.ndarray:
    try:
        return symplectic.load_matrix(path)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read matrix file {path!r}: {exc}") from exc


class InputError(Exception):
    """Raised for unreadable or malformed inputs (exit code 2)."""


def cmd_analyze(args) -> int:
    t0 = time.perf_counter()
    phi = _load_matrix_or_exit(args.matrix)
    dim = phi.shape[0]
    n = dim // 2
    dft = symplectic.defect(phi)
    rep = symplectic.lambda_mu_invariants(phi)
    report = {
        "command": "analyze",
        "inputs": {"matrix": args.matrix, "sha256": _sha256_file(args.matrix)},
        "n": n,
        "defect": dft,
        "condition": None if math.isinf(rep.condition) else rep.condition,
        "classification": rep.classification,
        "lambdas": rep.lambdas.tolist(),
        "mus": rep.mus.tolist(),
        "signs": rep.signs.tolist(),
    }
    if args.eps is not None:
        report["eps"] = args.eps
        report["within_eps"] = bool(dft <= args.eps)
    human = [f"defect           {dft:.12g}", f"classification   {rep.classification}"]
    if rep.classification != "singular":
        check = symplectic._decomposition_identity(n, dft, rep)
        report["decomposition"] = {
            "lhs": check.lhs,
            "rhs": check.rhs,
            "rel_error": check.rel_error,
        }
        human.append(f"decomposition    lhs={check.lhs:.9g} rhs={check.rhs:.9g} rel={check.rel_error:.3e}")
        human.append("   j      lambda_j          mu_j   sign")
        for j, (lam, mu, sg) in enumerate(zip(rep.lambdas, rep.mus, rep.signs), start=1):
            human.append(f"  {j:2d}  {lam:12.9f}  {mu:12.9f}   {sg:+d}")
    else:
        report["decomposition"] = None
        human.append("matrix is singular; lambda/mu invariants unavailable")
    _emit(report, human, args.format, args.out, t0)
    return 0


def _canonical_ellipsoids(n: int) -> list:
    """The unit ball plus a grid of plane-diagonal ellipsoids (capped for large n)."""
    radii = (0.5, 1.0, 2.0)
    batch = [np.eye(2 * n)]
    seen = {(1.0,) * n}
    if n <= 4:
        combos = itertools.product(radii, repeat=n)
    else:
        combos = ((r,) * n for r in radii)
    for combo in combos:
        if combo in seen:
            continue
        seen.add(combo)
        batch.append(symplectic.plane_scaling(combo))
    return batch


def cmd_certify(args) -> int:
    t0 = time.perf_counter()
    if not 0.0 <= args.eps < symplectic.EPS_LIMIT:
        raise InputError(f"--eps must lie in [0, 1/sqrt(2)), got {args.eps}")
    phi = _load_matrix_or_exit(args.matrix)
    dft = symplectic.defect(phi)  # first, so that an overflowing map is refused
    n = phi.shape[0] // 2
    eps_prime = math.sqrt(2.0) * args.eps
    rng = np.random.default_rng(args.seed)
    ellipsoids = _canonical_ellipsoids(n)
    ellipsoids += [suite.random_ellipsoid(rng, n) for _ in range(args.trials)]
    sq = symplectic.check_eps_nonsqueezing(phi, eps_prime, ellipsoids)
    ex = symplectic.check_eps_nonexpanding(phi, eps_prime, ellipsoids)
    cap = symplectic.capacity_preservation_check(phi, eps_prime, ellipsoids)
    passed = sq.passed and ex.passed and cap.passed
    report = {
        "command": "certify",
        "inputs": {"matrix": args.matrix, "sha256": _sha256_file(args.matrix)},
        "eps": args.eps,
        "eps_prime": eps_prime,
        "seed": args.seed,
        "ellipsoids": len(ellipsoids),
        "defect": dft,
        "nonsqueezing": sq.to_dict(),
        "nonexpanding": ex.to_dict(),
        "capacity": cap.to_dict(),
        "passed": bool(passed),
    }
    human = [
        f"eps = {args.eps}  (width parameter eps' = sqrt(2) eps = {eps_prime:.6g})",
        f"ellipsoids checked: {len(ellipsoids)}",
        f"non-squeezing: {'PASS' if sq.passed else 'FAIL'}",
        f"non-expanding: {'PASS' if ex.passed else 'FAIL'}",
        f"capacity:      {'PASS' if cap.passed else 'FAIL'}",
        f"verdict:       {'PASS' if passed else 'FAIL'}",
    ]
    _emit(report, human, args.format, args.out, t0)
    return 0 if passed else 1


def cmd_symplectify(args) -> int:
    t0 = time.perf_counter()
    phi = _load_matrix_or_exit(args.matrix)
    dft = symplectic.defect(phi)
    if dft > args.eps + 1e-12:
        sys.stderr.write(f"defect {dft:.6e} exceeds eps {args.eps:.6e}\n")
        return 1
    config = moser.FlowConfig(step_size=args.step)
    rep = moser.symplectify(phi, args.eps, config)
    psi_path = args.out or (args.matrix + ".psi.txt")
    symplectic.save_matrix(psi_path, rep.psi)
    report = {
        "command": "symplectify",
        "inputs": {"matrix": args.matrix, "sha256": _sha256_file(args.matrix)},
        "psi_file": psi_path,
        "report": rep.to_dict(),
    }
    human = [
        f"input defect     {rep.input_defect:.6e}",
        f"residual defect  {rep.residual_defect:.6e}  (tol {config.max_defect_tol:g})",
        f"displacement     {rep.displacement:.6e}  <=  {rep.displacement_bound:.6e}",
        f"singular values  [{rep.sv_min:.9f}, {rep.sv_max:.9f}]  within  [{rep.rho:.9f}, {1/rep.rho:.9f}]",
        f"psi written to   {psi_path}",
        f"verdict          {'PASS' if rep.passed else 'FAIL'}",
    ]
    _emit(report, human, args.format, None, t0)
    return 0 if rep.passed else 1


def cmd_bounds(args) -> int:
    t0 = time.perf_counter()
    if args.n < 1:
        raise InputError(f"--n must be >= 1, got {args.n}")
    threshold = symplectic.squeeze_eps_threshold()
    if not 0.0 <= args.eps < threshold:
        raise InputError(f"--eps must lie in [0, {threshold:.6f}), got {args.eps}")
    z0_bisect, z0_closed = symplectic.cubic_z0()
    rho_def = math.sqrt(1.0 - args.eps)
    eye = np.eye(2 * args.n)
    params = symplectic.squeezing_params(eye, args.eps)
    report = {
        "command": "bounds",
        "inputs": {"sha256": _sha256_params(f"bounds eps={args.eps!r} n={args.n}")},
        "eps": args.eps,
        "n": args.n,
        "rho_linear": symplectic.rho(args.eps, args.n, linear_case=True),
        "rho_nonlinear": symplectic.rho(args.eps, args.n, linear_case=False),
        "z0": z0_closed,
        "z0_bisect": z0_bisect,
        "threshold": threshold,
        "c_rho": symplectic.c_rho(rho_def),
        "s_I": params.s_A,
        "e_I": params.e_A,
        "K": symplectic.rigidity_bound(args.eps, args.n),
    }
    human = [
        f"rho (map defect eps, linear)     {report['rho_linear']:.9f}",
        f"rho (map defect eps, nonlinear)  {report['rho_nonlinear']:.9f}",
        f"z0                               {z0_closed:.12f}",
        f"width threshold 1 - z0^2         {threshold:.12f}",
        f"c_rho at rho=sqrt(1-eps)         {report['c_rho']:.12f}",
        f"s_I, e_I                         {params.s_A:.9f}, {params.e_A if params.e_A is not None else 'undefined'}",
        f"K(eps)                           {report['K']:.9f}",
    ]
    _emit(report, human, args.format, args.out, t0)
    return 0


def cmd_homotopy(args) -> int:
    t0 = time.perf_counter()
    try:
        with open(args.polyform, "r", encoding="utf-8") as fh:
            form = polyform.PolyForm.from_json_dict(json.load(fh))
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read polyform file {args.polyform!r}: {exc}") from exc
    if not 1 <= form.k < form.m:
        raise InputError(f"homotopy command needs 1 <= k < m, got k={form.k}, m={form.m}")
    hf = polyform.h(form)
    report = {
        "command": "homotopy",
        "inputs": {"polyform": args.polyform, "sha256": _sha256_file(args.polyform)},
        "h": hf.to_json_dict(),
    }
    human = [f"m={form.m} k={form.k}: computed the degree-{hf.k} primitive"]
    identity = polyform.homotopy_identity_check(form)
    report["identity_exact"] = bool(identity)
    human.append(f"h(d f) + d(h f) == f exactly: {identity}")
    passed = identity
    if args.points:
        try:
            with open(args.points, "r", encoding="utf-8") as fh:
                pts = json.load(fh)
            pts = [np.asarray(p, dtype=float) for p in pts]
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read points file {args.points!r}: {exc}") from exc
        radius = max(float(np.linalg.norm(p)) for p in pts) if pts else 1.0
        bound_rep = polyform.h_bound_check(form, pts, s=radius)
        report["bounds"] = bound_rep.to_dict()
        human.append(f"norm bounds at {len(pts)} points: {'PASS' if bound_rep.passed else 'FAIL'}")
        passed = passed and bound_rep.passed
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(hf.to_json_dict(), fh, indent=2)
            fh.write("\n")
        human.append(f"primitive written to {args.out}")
    report["passed"] = bool(passed)
    _emit(report, human, args.format, None, t0)
    return 0 if passed else 1


def cmd_suite(args) -> int:
    t0 = time.perf_counter()
    result = suite.run_suite(args.seed, args.scale)
    report = {
        "command": "suite",
        "inputs": {"sha256": _sha256_params(f"suite seed={args.seed} scale={args.scale}")},
        **result,
    }
    human = [f"{s['name']:<16} {'PASS' if s['passed'] else 'FAIL'}" for s in result["suites"]]
    human.append(f"verdict          {'PASS' if result['passed'] else 'FAIL'}")
    _emit(report, human, args.format, args.out, t0)
    return 0 if result["passed"] else 1


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format",
        choices=("json", "text"),
        default="json",
        help="json: report to stdout, table to stderr; text: table to stdout",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sympeps",
        description="Quantitative symplectic linear algebra toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="defect, lambda/mu invariants, classification")
    p.add_argument("matrix", help="matrix file (text 'n <int>' + rows, or JSON)")
    p.add_argument("--eps", type=float, default=None, help="optional defect budget to check against")
    p.add_argument("--out", default=None, help="also write the JSON report to this file")
    _add_format(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("certify", help="width and capacity certificates on ellipsoid batches")
    p.add_argument("matrix")
    p.add_argument("--eps", type=float, required=True,
                   help="defect bound of the map; certificates run at eps' = sqrt(2) eps")
    p.add_argument("--trials", type=int, default=32, help="number of random ellipsoids")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default=None)
    _add_format(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("symplectify", help="Moser correction psi with verified bounds")
    p.add_argument("matrix")
    p.add_argument("--eps", type=float, required=True, help="defect budget (must be >= defect)")
    p.add_argument("--step", type=float, default=1e-3, help="integration step size")
    p.add_argument("--out", default=None, help="psi matrix output file (default: <matrix>.psi.txt)")
    _add_format(p)
    p.set_defaults(func=cmd_symplectify)

    p = sub.add_parser("bounds", help="closed-form constants for a given eps and n")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--out", default=None)
    _add_format(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("homotopy", help="exact primitive h(f) of a polynomial form")
    p.add_argument("polyform", help="polyform JSON file")
    p.add_argument("points", nargs="?", default=None, help="optional JSON list of points")
    p.add_argument("--out", default=None, help="write h(f) as polyform JSON to this file")
    _add_format(p)
    p.set_defaults(func=cmd_homotopy)

    p = sub.add_parser("suite", help="run the seeded property suites")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--scale", choices=sorted(suite.SCALES), default="smoke")
    p.add_argument("--out", default=None)
    _add_format(p)
    p.set_defaults(func=cmd_suite)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
