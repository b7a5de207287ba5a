"""Every small float literal and every named tolerance in ``src/sympeps`` is
listed here with what backs it.

The scan parses each module with ``ast``.  It finds every float literal x
with 0 < |x| <= 1e-3, keyed by its module, its scope and its value, never by
its line: the scope is the dotted path of the enclosing functions and
classes, ending in the assigned name for an assignment at module or class
level (``BOUND_TOL``, ``FlowConfig.step_size``).  A module constant named
``*_TOL`` or ``*_RTOL`` whose value is not such a literal is keyed by its name
and its source text instead.  Each key is listed with how often it occurs.

The found keys and counts must equal ``TOLERANCES``.  A new tolerance, a
second use of one in the same scope, or a changed value (a looser one too) is
a new key and fails until it is listed.  Each entry names the test that
measures the error it covers, or states why the value stands: an option's
range, an acceptance pin, or a suite threshold, which may only tighten.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sympeps"

SUITE = "suite threshold on a measured margin; it may only tighten"

TOLERANCES = {
    ("cli", "build_parser", 1e-3): (
        1, "--step's default, inside FlowConfig's range; the flow's error there is measured by "
           "tests/test_moser.py::test_symplectify_matches_the_symplectic_polar_factor"),
    ("moser", "BOUND_TOL", 1e-6): (
        1, "psi is off the exact symplectic polar factor by at most 2.4e-10, measured by "
           "tests/test_moser.py::test_symplectify_matches_the_symplectic_polar_factor"),
    ("moser", "MAX_DEFECT_TOL", 1e-6): (
        1, "acceptance pin on the residual defect, tests/test_acceptance.py::test_criterion_08_moser_symplectification; "
           "the residual is measured below 1e-13 by tests/test_moser.py::test_stacked_flow_residual_defect"),
    ("moser", "FlowConfig.step_size", 1e-3): (1, "the default step, an option value, not a tolerance"),
    ("moser", "FlowConfig.__post_init__", 1e-4): (
        1, "option range: the smallest step, below which psi no longer moves above roundoff"),
    ("moser", "symplectify", 1e-12): (
        1, "acceptance pin: tests/test_acceptance.py::test_criterion_08_moser_symplectification calls "
           "symplectify at defect(phi) + 1e-12; exact.defect_within decides the budget exactly"),
    ("polyform", "h_bound_check", 1e-9): (
        1, "absolute slack of HBoundReport.passed; the sampled ray norms' rounding is measured by "
           "tests/test_polyform.py::test_ray_norms_match_exact_rational_samples, and ROADMAP item 3 "
           "replaces the slack by certified sups"),
    ("suite", "norm_suite", 1e-12): (
        3, f"{SUITE}: the sandwich gap and the exact comass outside the sandwich, pinned by "
           "tests/test_acceptance.py::test_criterion_02_norm_suite, and the floor of the functoriality scale"),
    ("suite", "norm_suite", 1e-10): (2, f"{SUITE}: functoriality, and omega0's norms (acceptance 02)"),
    ("suite", "norm_suite", 1e-9): (3, f"{SUITE}: the witness (acceptance 02), interior and composition margins"),
    ("suite", "spectrum_suite", 1e-8): (
        2, f"{SUITE}: invariance, pinned by tests/test_acceptance.py::test_criterion_05_spectrum_invariance"),
    ("suite", "spectrum_suite", 1e-10): (1, f"{SUITE}: the scaling law (acceptance 05)"),
    ("suite", "decomposition_suite", 1e-8): (
        1, f"{SUITE}: pinned by tests/test_acceptance.py::test_criterion_06_defect_decomposition"),
    ("suite", "hbound_suite", 1e-9): (
        1, f"{SUITE}: pinned by tests/test_acceptance.py::test_criterion_04_operator_norm_bounds"),
    ("suite", "moser_suite", 1e-6): (
        2, f"{SUITE}: the residual and the plane-scaling oracle, acceptance 08's "
           "(tests/test_acceptance.py::test_criterion_08_moser_symplectification)"),
    ("suite", "moser_suite", 1e-12): (1, "the budget defect(phi) + 1e-12 of acceptance 08's oracle maps"),
    ("suite", "constants_suite", 1e-12): (
        2, f"{SUITE}: z0, pinned by tests/test_acceptance.py::test_criterion_09_constants"),
    ("suite", "constants_suite", 1e-10): (2, f"{SUITE}: monotonicity of K (acceptance 09) and of c_rho"),
    ("suite", "constants_suite", 1e-3): (
        2, "the threshold 1 - z0^2 against its four stated digits 0.2006 (acceptance 09 reads 0.20), "
           "and the smallest sample eps of K_small_for_small_eps, an input, not a tolerance"),
    ("suite", "limit_suite", 1e-8): (
        2, f"{SUITE}: pinned by tests/test_acceptance.py::test_criterion_10_defect_continuity_along_sequences"),
    ("symplectic", "SINGULAR_RTOL", 1e-12): (
        1, "a definition, not an error bound: condition numbers from 1e12 count as singular; "
           "ROADMAP item 1 measures what the widths lose below it"),
    ("symplectic", "KERNEL_RTOL", 1e-10): (
        1, "a plane below it is lost and refused by name, tests/test_symplectic.py::test_lambda_mu_refuses_a_lost_plane"),
    ("symplectic", "CERT_TOL", 1e-10): (
        1, "scaled by min(1, s), tests/test_symplectic.py::test_certificate_verdicts_do_not_depend_on_the_ellipsoid_scale; "
           "ROADMAP item 1 replaces it by a per-record bound"),
    ("symplectic", "SIGN_TOL", 1e-12): (
        1, "absolute on omega0(u_j, v_j) in [-1, 1]; a vanishing mu_j reads sign 0 in "
           "tests/test_symplectic.py::test_defect_decomposition_zero_signs"),
    ("symplectic", "defect_decomposition_check", 1e-12): (
        1, "floor of the relative error's denominator where both sides vanish, "
           "tests/test_symplectic.py::test_defect_decomposition_identity_map"),
    ("symplectic", "standard_form", 1e-300): (
        1, "floor of the scale of the zero form, which has no planes, tests/test_symplectic.py::test_standard_form_zero_matrix"),
    ("symplectic", "standard_form", 1e-6): (
        1, "the reconstruction check, which refuses NaN by name in "
           "tests/test_symplectic.py::test_standard_form_refuses_a_plane_whose_image_underflows; "
           "ROADMAP item 15 derives it"),
    ("symplectic", "random_defective", 1e-9): (
        1, "the generator's tuning tolerance, tests/test_symplectic.py::test_random_defective_hits_any_target"),
    ("symplectic", "random_defective", 1e-3): (1, "the first upper end of the bisection bracket, not a tolerance"),
}

NAMED_TEST = re.compile(r"(tests/test_\w+\.py)::(\w+)")


def _small(node) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) is float and 0.0 < abs(node.value) <= 1e-3


def _visit(node, module: str, scope: tuple, found: Counter) -> None:
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = scope + (child.name,)
        elif isinstance(child, (ast.Assign, ast.AnnAssign)) and isinstance(node, (ast.Module, ast.ClassDef)):
            targets = child.targets if isinstance(child, ast.Assign) else [child.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            inner = scope + tuple(names[:1])
            named = [n for n in names if n.endswith(("_TOL", "_RTOL"))]
            if isinstance(node, ast.Module) and named and not _small(child.value):
                found[(module, named[0], ast.unparse(child.value))] += 1
        elif _small(child):
            found[(module, ".".join(scope) or "<module>", child.value)] += 1
        _visit(child, module, inner, found)


def scan() -> Counter:
    found = Counter()
    for path in sorted(SRC.glob("*.py")):
        _visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, (), found)
    return found


def test_every_tolerance_is_listed():
    found = scan()
    listed = Counter({key: count for key, (count, _) in TOLERANCES.items()})
    assert {k: v for k, v in found.items() if listed[k] != v} == {}, "found but not listed as such"
    assert {k: v for k, v in listed.items() if found[k] != v} == {}, "listed but not found as such"


def test_every_named_test_exists():
    for key, (_, reason) in TOLERANCES.items():
        for path, name in NAMED_TEST.findall(reason):
            tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
            defined = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
            assert name in defined, (key, path, name)
