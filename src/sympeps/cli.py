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
import functools
import hashlib
import json
import math
import sys
import time

import numpy as np

from . import __version__, exact, exterior, moser, polyform, suite, symplectic

DEFAULT_SEED = 20250810


def _sha256_params(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _write_output(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write output file {path!r}: {exc}") from exc


def _emit(report: dict, human_lines, fmt: str = "json", out_path=None) -> None:
    payload = json.dumps(report, allow_nan=False, check_circular=False) + "\n"
    if out_path:
        _write_output(out_path, payload)
    if fmt == "json":
        sys.stdout.write(payload)
        for line in human_lines:
            sys.stderr.write(line + "\n")
    else:
        for line in human_lines:
            sys.stdout.write(line + "\n")


def _read(path: str, what: str, parse):
    """(parse(text), sha256 of the bytes) from the one read of the file, with
    any failure to read or parse it refused by name: RecursionError is json's
    decoder on deeply nested input."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        return parse(data.decode("utf-8")), hashlib.sha256(data).hexdigest()
    except (OSError, ValueError, RecursionError) as exc:
        raise ValueError(f"cannot read {what} file {path!r}: {exc}") from exc


def _read_matrix(path: str):
    """The matrix file at path, and the report's inputs entry that names it."""
    phi, sha256 = _read(path, "matrix", lambda text: symplectic.read_matrix(text, path))
    return phi, {"matrix": path, "sha256": sha256}


def _require_nonnegative(option: str, value: int) -> None:
    if value < 0:
        raise ValueError(f"{option} must be >= 0, got {value}")


def cmd_analyze(args):
    if args.eps is not None and not math.isfinite(args.eps):
        raise ValueError(f"--eps must be finite, got {args.eps}")
    phi, inputs = _read_matrix(args.matrix)
    dim = phi.shape[0]
    n = dim // 2
    dft = symplectic.defect(phi)
    rep = symplectic.lambda_mu_invariants(phi)
    report = {
        "inputs": inputs,
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
        report["within_eps"] = exact.defect_within(phi, dft, args.eps)
    human = [f"defect           {dft:.12g}", f"classification   {rep.classification}"]
    if rep.classification != "singular":
        check = symplectic.defect_decomposition_check(dft, rep)
        report["decomposition"] = check._asdict()
        human.append(f"decomposition    lhs={check.lhs:.9g} rhs={check.rhs:.9g} rel={check.rel_error:.3e}")
        human.append("   j      lambda_j          mu_j   sign")
        for j, (lam, mu, sg) in enumerate(zip(rep.lambdas, rep.mus, rep.signs), start=1):
            human.append(f"  {j:2d}  {lam:12.9f}  {mu:12.9f}   {sg:+d}")
    else:
        report["decomposition"] = None
        human.append("matrix is singular; lambda/mu invariants unavailable")
    return report, human, True


def cmd_certify(args):
    if not 0.0 <= args.eps < symplectic.EPS_LIMIT:
        raise ValueError(f"--eps must lie in [0, 1/sqrt(2)), got {args.eps}")
    _require_nonnegative("--trials", args.trials)
    _require_nonnegative("--seed", args.seed)
    phi, inputs = _read_matrix(args.matrix)
    dft = symplectic.defect(phi)  # first, so that an overflowing map is refused
    n = phi.shape[0] // 2
    eps_prime = math.sqrt(2.0) * args.eps
    batch = suite.ellipsoid_batch(n, args.trials, args.seed)
    certs = symplectic.width_certificates(phi, eps_prime, batch)
    sq, ex, cap, widths = certs
    passed = certs.passed
    grid = batch[: len(batch) - args.trials]
    named = sorted({rep.worst["index"] for rep in (sq, ex, cap) if rep.worst is not None})
    report = {
        "schema": 4,
        "inputs": inputs,
        "n": n,
        "eps": args.eps,
        "eps_prime": eps_prime,
        "seed": args.seed,
        "ellipsoids": len(batch),
        "defect": dft,
        "batch": {
            "canonical_radii": grid.diagonal(axis1=1, axis2=2)[:, ::2].tolist(),
            "trials": args.trials,
            "sha256": hashlib.sha256(np.ascontiguousarray(batch, dtype="<f8").tobytes()).hexdigest(),
        },
        "widths": widths,
        "nonsqueezing": sq.to_dict(),
        "nonexpanding": ex.to_dict(),
        "capacity": cap.to_dict(),
        "passed": passed,
        "witnesses": [{"index": i, "A": batch[i].tolist()} for i in named],
    }
    human = [
        f"eps = {args.eps}  (width parameter eps' = sqrt(2) eps = {eps_prime:.6g})",
        f"ellipsoids checked: {len(batch)}",
        f"non-squeezing: {'PASS' if sq.passed else 'FAIL'}",
        f"non-expanding: {'PASS' if ex.passed else 'FAIL'}",
        f"capacity:      {'PASS' if cap.passed else 'FAIL'}",
        f"verdict:       {'PASS' if passed else 'FAIL'}",
    ]
    return report, human, passed


def cmd_symplectify(args):
    if not 0.0 <= args.eps < math.inf:
        raise ValueError(f"--eps must be finite and >= 0, got {args.eps}")
    if not args.eps < symplectic.EPS_LIMIT:
        raise ValueError(f"--eps must be < 1/sqrt(2), got {args.eps}")
    phi, inputs = _read_matrix(args.matrix)
    rep = moser.symplectify(phi, args.eps, moser.FlowConfig(step_size=args.step))
    psi_path = args.out or (args.matrix + ".psi.txt")
    try:
        symplectic.save_matrix(psi_path, rep.psi)
    except OSError as exc:
        raise ValueError(f"cannot write output file {psi_path!r}: {exc}") from exc
    report = {"inputs": inputs, "psi_file": psi_path, "report": rep.to_dict()}
    human = [
        f"input defect     {rep.input_defect:.6e}",
        f"residual defect  {rep.residual_defect:.6e}  (tol {moser.MAX_DEFECT_TOL:g})",
        f"displacement     {rep.displacement:.6e}  <=  {rep.displacement_bound:.6e}",
        f"singular values  [{rep.sv_min:.9f}, {rep.sv_max:.9f}]  within  [{rep.rho:.9f}, {1/rep.rho:.9f}]",
        f"psi written to   {psi_path}",
        f"verdict          {'PASS' if rep.passed else 'FAIL'}",
    ]
    return report, human, rep.passed


def cmd_bounds(args):
    if args.n < 1:
        raise ValueError(f"--n must be >= 1, got {args.n}")
    threshold = symplectic.squeeze_eps_threshold()
    if not 0.0 <= args.eps < threshold:
        raise ValueError(f"--eps must lie in [0, {threshold:.6f}), got {args.eps}")
    z0_bisect, z0_closed = symplectic.cubic_z0()
    # the identity's constants do not depend on n: any n in constant memory
    identity = symplectic.squeezing_params(np.eye(2), args.eps)
    rho_I, s_I, e_I = identity.rho, identity.s_A, identity.e_A
    report = {
        "inputs": {"sha256": _sha256_params(f"bounds eps={args.eps!r} n={args.n}")},
        "eps": args.eps,
        "n": args.n,
        "rho_linear": symplectic.rho(args.eps, args.n, linear_case=True),
        "rho_nonlinear": symplectic.rho(args.eps, args.n, linear_case=False),
        "z0": z0_closed,
        "z0_bisect": z0_bisect,
        "threshold": threshold,
        "c_rho": symplectic.c_rho(rho_I),
        "s_I": s_I,
        "e_I": e_I,
        "K": symplectic.rigidity_bound(args.eps, args.n),
    }
    human = [
        f"rho (map defect eps, linear)     {report['rho_linear']:.9f}",
        f"rho (map defect eps, nonlinear)  {report['rho_nonlinear']:.9f}",
        f"z0                               {z0_closed:.12f}",
        f"width threshold 1 - z0^2         {threshold:.12f}",
        f"c_rho at rho=sqrt(1-eps)         {report['c_rho']:.12f}",
        f"s_I, e_I                         {s_I:.9f}, {e_I if e_I is not None else 'undefined'}",
        f"K(eps)                           {report['K']:.9f}",
    ]
    return report, human, True


def _points(data, m: int) -> np.ndarray:
    """A points file's list as one (P, m) block of finite floats."""
    if not isinstance(data, list):
        raise ValueError(f"points JSON must be a list of points, got {type(data).__name__}")
    return polyform.point_block(data, m)


def cmd_homotopy(args):
    form, sha256 = _read(args.polyform, "polyform",
                         lambda text: polyform.PolyForm.from_json_dict(exterior.json_loads(text)))
    if not 1 <= form.k < form.m:
        raise ValueError(f"homotopy command needs 1 <= k < m, got k={form.k}, m={form.m}")
    hf = polyform.h(form)
    report = {"inputs": {"polyform": args.polyform, "sha256": sha256}, "h": hf.to_json_dict()}
    human = [f"m={form.m} k={form.k}: computed the degree-{hf.k} primitive"]
    identity = polyform.homotopy_identity_check(form, hf)
    report["identity_exact"] = bool(identity)
    human.append(f"h(d f) + d(h f) == f exactly: {identity}")
    passed = identity
    if args.points:
        pts, _ = _read(args.points, "points", lambda text: _points(exterior.json_loads(text), form.m))
        bound_rep = polyform.h_bound_check(form, pts, hf=hf)
        report["bounds"] = bound_rep.to_dict()
        human.append(f"norm bounds at {len(pts)} points: {'PASS' if bound_rep.passed else 'FAIL'}")
        passed = passed and bound_rep.passed
    if args.out:
        _write_output(args.out, json.dumps(report["h"]) + "\n")
        human.append(f"primitive written to {args.out}")
    report["passed"] = bool(passed)
    return report, human, passed


def cmd_suite(args):
    _require_nonnegative("--seed", args.seed)
    result = suite.run_suite(args.seed, args.scale)
    report = {
        "inputs": {"sha256": _sha256_params(f"suite seed={args.seed} scale={args.scale}")},
        **result,
    }
    human = [f"{s['name']:<16} {'PASS' if s['passed'] else 'FAIL'}" for s in result["suites"]]
    human.append(f"verdict          {'PASS' if result['passed'] else 'FAIL'}")
    return report, human, result["passed"]


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
    p.add_argument("--out", dest="report_out", metavar="OUT", help="also write the JSON report to this file")
    _add_format(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("certify", help="width and capacity certificates on ellipsoid batches")
    p.add_argument("matrix")
    p.add_argument("--eps", type=float, required=True,
                   help="defect bound of the map; certificates run at eps' = sqrt(2) eps")
    p.add_argument("--trials", type=int, default=32, help="number of random ellipsoids")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", dest="report_out", metavar="OUT")
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
    p.add_argument("--out", dest="report_out", metavar="OUT")
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
    p.add_argument("--out", dest="report_out", metavar="OUT")
    _add_format(p)
    p.set_defaults(func=cmd_suite)
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: building the argparse tree costs about a
    millisecond, more than a small command's own work, and parse_args keeps
    no state between calls."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command: each ``cmd_*`` returns (report, human lines,
    passed), and only here is a run timed, emitted and given its exit code."""
    args = _parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        report, human, passed = args.func(args)
        _emit({"command": args.command, **report}, human, args.format, getattr(args, "report_out", None))
    except moser.DefectAboveBudget as exc:  # a verdict, though a ValueError
        sys.stderr.write(f"{exc}\n")
        return 1
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except MemoryError as exc:  # numpy's message names the shape it could not allocate
        sys.stderr.write(f"error: not enough memory for {args.command}: {exc}\n")
        return 2
    sys.stderr.write(f"wall time: {time.perf_counter() - t0:.3f} s\n")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
